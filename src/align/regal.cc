#include "align/regal.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "linalg/kdtree.h"
#include "linalg/svd.h"

namespace graphalign {

namespace {

// Discounted k-hop degree histogram features (Eq. 8), log2 buckets.
Status HopDegreeFeatures(const Graph& g, int max_hops, double discount,
                         int num_buckets, const Deadline& deadline,
                         DenseMatrix* features, int row_offset) {
  const int n = g.num_nodes();
  DeadlineChecker checker(deadline, /*stride=*/64);
  std::vector<int> dist(n);
  std::vector<int> frontier;
  for (int src = 0; src < n; ++src) {
    GA_RETURN_IF_EXPIRED(checker, "REGAL features");
    std::fill(dist.begin(), dist.end(), -1);
    dist[src] = 0;
    frontier.assign(1, src);
    double weight = 1.0;
    double* feat = features->Row(row_offset + src);
    for (int hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
      std::vector<int> next;
      for (int u : frontier) {
        for (int v : g.Neighbors(u)) {
          if (dist[v] != -1) continue;
          dist[v] = hop;
          next.push_back(v);
          const int d = g.Degree(v);
          if (d > 0) {
            const int b =
                std::min(num_buckets - 1,
                         static_cast<int>(std::floor(std::log2(d))));
            feat[b] += weight;
          }
        }
      }
      frontier = std::move(next);
      weight *= discount;
    }
  }
  return Status::Ok();
}

}  // namespace

Result<DenseMatrix> RegalAligner::ComputeEmbeddings(const Graph& g1,
                                                    const Graph& g2,
                                                    const Deadline& deadline) {
  GA_RETURN_IF_ERROR(ValidateInputs(g1, g2));
  if (options_.max_hops < 1 || options_.discount < 0.0 ||
      options_.landmark_factor < 1) {
    return Status::InvalidArgument("REGAL: bad options");
  }
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  const int n = n1 + n2;
  const int max_deg = std::max(std::max(g1.MaxDegree(), g2.MaxDegree()), 1);
  const int num_buckets =
      static_cast<int>(std::floor(std::log2(max_deg))) + 1;

  DenseMatrix features(n, num_buckets);
  GA_RETURN_IF_ERROR(HopDegreeFeatures(g1, options_.max_hops,
                                       options_.discount, num_buckets,
                                       deadline, &features, 0));
  GA_RETURN_IF_ERROR(HopDegreeFeatures(g2, options_.max_hops,
                                       options_.discount, num_buckets,
                                       deadline, &features, n1));

  // Landmark selection over the union of both node sets.
  const int p = std::min(
      n, std::max(2, static_cast<int>(options_.landmark_factor *
                                      std::log2(std::max(n, 2)))));
  Rng rng(options_.seed);
  std::vector<int> landmarks = RandomPermutation(n, &rng);
  landmarks.resize(p);

  // Node-to-landmark similarities C (Eq. 9 with gamma_attr = 0). One bounded
  // parallel region; a single check before it keeps overshoot bounded.
  GA_RETURN_IF_EXPIRED(deadline, "REGAL landmarks");
  DenseMatrix c(n, p);
  ParallelFor(n, [&](int64_t lo, int64_t hi) {
    for (int i = static_cast<int>(lo); i < hi; ++i) {
      const double* fi = features.Row(i);
      double* crow = c.Row(i);
      for (int l = 0; l < p; ++l) {
        const double* fl = features.Row(landmarks[l]);
        double d2 = 0.0;
        for (int b = 0; b < num_buckets; ++b) {
          const double diff = fi[b] - fl[b];
          d2 += diff * diff;
        }
        crow[l] = std::exp(-options_.gamma_struc * d2);
      }
    }
  }, std::max<int64_t>(2, 500'000 / (static_cast<int64_t>(p) * num_buckets + 1)));

  // Nystrom: S ~= C W^+ C^T with W the landmark-to-landmark block;
  // factor W^+ = U S V^T and embed Y = C U S^{1/2}.
  DenseMatrix w(p, p);
  for (int a = 0; a < p; ++a) {
    for (int b = 0; b < p; ++b) w(a, b) = c(landmarks[a], b);
  }
  GA_ASSIGN_OR_RETURN(DenseMatrix w_pinv, PseudoInverse(w, 1e-10, deadline));
  GA_ASSIGN_OR_RETURN(SvdResult svd, Svd(w_pinv, deadline));
  DenseMatrix u_scaled = svd.u;  // p x p
  for (int j = 0; j < p; ++j) {
    const double s = std::sqrt(std::max(svd.singular_values[j], 0.0));
    for (int i = 0; i < p; ++i) u_scaled(i, j) *= s;
  }
  DenseMatrix y = Multiply(c, u_scaled);  // n x p
  // Row-normalize embeddings (as REGAL's reference implementation does).
  for (int i = 0; i < n; ++i) {
    double* row = y.Row(i);
    double norm = 0.0;
    for (int j = 0; j < p; ++j) norm += row[j] * row[j];
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (int j = 0; j < p; ++j) row[j] /= norm;
    }
  }
  return y;
}

Result<DenseMatrix> RegalAligner::ComputeSimilarityImpl(
    const Graph& g1, const Graph& g2, const Deadline& deadline) {
  GA_ASSIGN_OR_RETURN(DenseMatrix y, ComputeEmbeddings(g1, g2, deadline));
  GA_RETURN_IF_EXPIRED(deadline, "REGAL similarity");
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  const int d = y.cols();
  DenseMatrix sim(n1, n2);
  ParallelFor(n1, [&](int64_t lo, int64_t hi) {
    for (int u = static_cast<int>(lo); u < hi; ++u) {
      const double* yu = y.Row(u);
      double* out = sim.Row(u);
      for (int v = 0; v < n2; ++v) {
        const double* yv = y.Row(n1 + v);
        double d2 = 0.0;
        for (int j = 0; j < d; ++j) {
          const double diff = yu[j] - yv[j];
          d2 += diff * diff;
        }
        out[v] = std::exp(-d2);  // Eq. 10.
      }
    }
  }, std::max<int64_t>(2, 500'000 / (static_cast<int64_t>(n2) * d + 1)));
  return sim;
}

Status RegalAligner::ScoreSparseCandidatesImpl(
    const Graph& g1, const Graph& g2, const Deadline& deadline,
    std::vector<SparseCandidate>* candidates) {
  GA_ASSIGN_OR_RETURN(DenseMatrix y, ComputeEmbeddings(g1, g2, deadline));
  GA_RETURN_IF_EXPIRED(deadline, "REGAL sparse similarity");
  const int n1 = g1.num_nodes();
  const int d = y.cols();
  for (SparseCandidate& c : *candidates) {
    const double* yu = y.Row(c.row);
    const double* yv = y.Row(n1 + c.col);
    double d2 = 0.0;
    for (int j = 0; j < d; ++j) {
      const double diff = yu[j] - yv[j];
      d2 += diff * diff;
    }
    c.similarity = std::exp(-d2);  // Eq. 10, sampled at the candidate.
  }
  return Status::Ok();
}

Result<Alignment> RegalAligner::AlignNativeImpl(const Graph& g1,
                                                const Graph& g2,
                                                const Deadline& deadline) {
  GA_ASSIGN_OR_RETURN(DenseMatrix y, ComputeEmbeddings(g1, g2, deadline));
  GA_RETURN_IF_EXPIRED(deadline, "REGAL nearest-neighbor");
  return NearestTargets(y, g1.num_nodes(), g2.num_nodes());
}

}  // namespace graphalign
